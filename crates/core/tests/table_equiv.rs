//! Property: the slab lease table is observationally equivalent to the
//! reference (map + `BTreeSet`) table in `reference/`.
//!
//! The reference implementation is the executable specification; the slab
//! is the fast path. Both are driven through the same randomized script of
//! grants, handle-keyed extensions, releases, prunes, time jumps, and
//! crashes (`clear`), and after every step must agree on every observable:
//! holders, expiries, record count, prune count, and the grant counter.
//!
//! The slab runs with a 1-unit tick ([`SlabTable::with_tick`]) so its
//! wheel-backed prune is exact and comparable verbatim; the tick only
//! bounds prune *lag* and affects no query, so equivalence at tick 1
//! plus the slab's own lag tests cover the default configuration too.
//!
//! Handles are deliberately abused: the script remembers every handle a
//! grant ever returned and keeps presenting them after releases, slot
//! reuse, and crashes. The slab must treat each stale handle as a clean
//! miss (keyed fallback) for the tables to stay in lockstep — if a stale
//! handle ever touched the wrong record, holders or expiries would
//! diverge and the property would fail.
//!
//! The slab's memory invariant rides along: after every step its wheel
//! holds at most one entry per live record plus one per release whose
//! old entry cannot have fired yet — extensions never add one.

use std::collections::HashMap;

use lease_clock::{Dur, Time};
use lease_core::table::{LeaseHandle, SlabTable};
use lease_core::ClientId;
use proptest::prelude::*;

mod reference;
use reference::ReferenceTable;

const RESOURCES: u64 = 6;
const CLIENTS: u32 = 4;

#[derive(Debug, Clone)]
enum Step {
    /// Keyed grant (or extension) of a lease `dt` past current time.
    Grant { resource: u64, client: u32, dt: u64 },
    /// Handle-keyed extension, echoing whatever handle the last grant for
    /// this key returned — possibly stale after release/reuse/crash.
    Extend { resource: u64, client: u32, dt: u64 },
    /// Voluntary release.
    Release { resource: u64, client: u32 },
    /// Advance time and physically prune.
    Prune { by: u64 },
    /// Advance time without pruning (lets grants land behind the slab
    /// wheel's position, and lets records expire logically first).
    Advance { by: u64 },
    /// Server crash: both tables drop all records.
    Crash,
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..RESOURCES, 0..CLIENTS, 1u64..400).prop_map(|(resource, client, dt)| Step::Grant {
            resource,
            client,
            dt
        }),
        (0..RESOURCES, 0..CLIENTS, 1u64..400).prop_map(|(resource, client, dt)| Step::Extend {
            resource,
            client,
            dt
        }),
        (0..RESOURCES, 0..CLIENTS)
            .prop_map(|(resource, client)| Step::Release { resource, client }),
        (1u64..150).prop_map(|by| Step::Prune { by }),
        (1u64..150).prop_map(|by| Step::Advance { by }),
        (0u32..1).prop_map(|_| Step::Crash),
    ]
}

/// Asserts every observable the two tables share agrees at `now`.
fn assert_same_view(
    slab: &SlabTable<u64>,
    reference: &ReferenceTable<u64>,
    now: Time,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(slab.len(), reference.len());
    prop_assert_eq!(slab.is_empty(), reference.is_empty());
    prop_assert_eq!(slab.granted_total(), reference.granted_total());
    for r in 0..RESOURCES {
        prop_assert_eq!(slab.holders_at(r, now), reference.holders_at(r, now));
        prop_assert_eq!(
            slab.holder_count_at(r, now),
            reference.holder_count_at(r, now)
        );
        prop_assert_eq!(slab.max_expiry(r, now), reference.max_expiry(r, now));
        for c in 0..CLIENTS {
            let c = ClientId(c);
            prop_assert_eq!(slab.expiry_of(r, c, now), reference.expiry_of(r, c, now));
        }
    }
    // Full record dump, order included.
    let slab_recs: Vec<_> = slab.iter().collect();
    let ref_recs: Vec<_> = reference.iter().collect();
    prop_assert_eq!(slab_recs, ref_recs);
    // next_expiry: the reference answer is exact; the slab's is a lower
    // bound (an extended record's entry fires at the expiry it was last
    // armed for, a released tenancy's lingers), absent iff no records
    // are live — which the len check above already aligned.
    match (slab.next_expiry(), reference.next_expiry()) {
        (None, None) => {}
        (Some(bound), Some(exact)) => prop_assert!(bound <= exact),
        (s, r) => prop_assert!(false, "next_expiry presence diverged: {s:?} vs {r:?}"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]
    #[test]
    fn slab_matches_reference(steps in proptest::collection::vec(step(), 1..80)) {
        let mut slab: SlabTable<u64> = SlabTable::with_tick(Dur(1));
        let mut reference: ReferenceTable<u64> = ReferenceTable::new();
        // Every handle any grant ever returned, never invalidated on our
        // side: exactly the abuse a slow, crashed, or confused client
        // would inflict on the server.
        let mut handles: HashMap<(u64, ClientId), LeaseHandle> = HashMap::new();
        // Expiry of every released record whose wheel entry may still be
        // pending: the entry sits at or before that expiry, so a prune at
        // or past it has certainly fired (and dropped) it.
        let mut released: Vec<Time> = Vec::new();
        let mut now = Time::ZERO;

        for s in steps {
            match s {
                Step::Grant { resource, client, dt } => {
                    let client = ClientId(client);
                    let expiry = Time(now.0 + dt);
                    let h = slab.grant(resource, client, expiry);
                    reference.grant(resource, client, expiry);
                    handles.insert((resource, client), h);
                }
                Step::Extend { resource, client, dt } => {
                    let client = ClientId(client);
                    let expiry = Time(now.0 + dt);
                    let h = handles
                        .get(&(resource, client))
                        .copied()
                        .unwrap_or(LeaseHandle::NULL);
                    let h = slab.extend(h, resource, client, expiry);
                    reference.extend(LeaseHandle::NULL, resource, client, expiry);
                    handles.insert((resource, client), h);
                }
                Step::Release { resource, client } => {
                    let client = ClientId(client);
                    released.extend(reference.expiry_of(resource, client, Time::ZERO));
                    slab.release(resource, client);
                    reference.release(resource, client);
                    // The stale handle stays in `handles` on purpose.
                }
                Step::Prune { by } => {
                    now = Time(now.0 + by);
                    let slab_removed = slab.prune(now);
                    let ref_removed = reference.prune(now);
                    prop_assert_eq!(slab_removed, ref_removed);
                    released.retain(|&e| e > now);
                }
                Step::Advance { by } => {
                    now = Time(now.0 + by);
                }
                Step::Crash => {
                    slab.clear();
                    reference.clear();
                    released.clear();
                    // Pre-crash handles stay around: they must all be
                    // clean misses against the post-crash slab.
                }
            }
            assert_same_view(&slab, &reference, now)?;
            prop_assert!(slab.timer_entries() <= slab.len() + released.len());
        }

        // Drain: after pruning far past every expiry the tables are empty.
        now = Time(now.0 + 10_000_000);
        prop_assert_eq!(slab.prune(now), reference.prune(now));
        assert_same_view(&slab, &reference, now)?;
        prop_assert!(slab.is_empty());
        prop_assert_eq!(slab.timer_entries(), 0);
    }
}
