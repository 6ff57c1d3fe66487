//! The paper's steady state is extension, so extension must be the
//! cheapest thing the table does: 512 leases renewed two million times by
//! handle with **no** prune in between must not touch the allocator, and
//! must leave exactly one wheel entry per lease. (`zero_alloc` prunes
//! past every superseded deadline each round, so it cannot see growth
//! that only shows between prunes.)
//!
//! ```text
//! cargo test -p lease-bench --features alloc-count --test renewal_storm
//! ```
//!
//! Alone in this file for the same reason as `zero_alloc`: the counting
//! allocator is process-global.
#![cfg(feature = "alloc-count")]

use lease_bench::allocations;
use lease_clock::Time;
use lease_core::table::{LeaseHandle, SlabTable};
use lease_core::ClientId;

const RESOURCES: u64 = 256;
const CLIENTS: u32 = 2;
const LEASES: usize = (RESOURCES * CLIENTS as u64) as usize;
const EXTENSIONS: u64 = 2_000_000;

#[test]
fn renewal_storm_without_prune_is_allocation_free_and_wheel_stays_flat() {
    let mut table: SlabTable<u64> = SlabTable::new();
    let key = |i: usize| (i as u64 / u64::from(CLIENTS), ClientId(i as u32 % CLIENTS));
    let base = Time::from_secs(10).0;
    let mut handles: Vec<LeaseHandle> = (0..LEASES)
        .map(|i| table.grant(key(i).0, key(i).1, Time(base)))
        .collect();
    // Warm-up: one extension of every lease.
    for (i, h) in handles.iter_mut().enumerate() {
        *h = table.extend(*h, key(i).0, key(i).1, Time(base + 1));
    }

    // The harness's main thread does its own bookkeeping just after
    // starting this test; the counters are process-wide, so let it park
    // before anything is counted.
    std::thread::sleep(std::time::Duration::from_millis(50));
    let before = allocations().expect("alloc-count feature is on");
    for n in 0..EXTENSIONS {
        let i = n as usize % LEASES;
        handles[i] = table.extend(handles[i], key(i).0, key(i).1, Time(base + 2 + n));
    }
    let allocs = allocations().expect("alloc-count feature is on") - before;

    assert_eq!(allocs, 0, "extension allocated");
    assert_eq!(table.timer_entries(), LEASES);
    assert_eq!(table.len(), LEASES);
    assert_eq!(table.granted_total(), LEASES as u64 * 2 + EXTENSIONS);
}
