//! The paper's steady state is extension, so extension must be the
//! cheapest thing the table does: 512 leases renewed two million times by
//! handle with **no** prune in between must not touch the allocator, and
//! must leave exactly one wheel entry per lease. (`zero_alloc` prunes
//! past every superseded deadline each round, so it cannot see growth
//! that only shows between prunes.)
//!
//! The same holds for the approval path's churn: the same leases released
//! and re-granted 200 000 times, still with no prune, orphan one entry
//! each. The table compacts them away in place whenever they outnumber
//! the live records, so the wheel stays within twice the leases plus
//! `ORPHAN_SLACK` — and, once warm, without a single allocation: neither
//! the compaction nor its capacity give-back touches the allocator.
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
use lease_core::table::{LeaseHandle, SlabTable, ORPHAN_SLACK};
use lease_core::ClientId;

const RESOURCES: u64 = 256;
const CLIENTS: u32 = 2;
const LEASES: usize = (RESOURCES * CLIENTS as u64) as usize;
const EXTENSIONS: u64 = 2_000_000;
const CHURNS: u64 = 200_000;

#[test]
fn renewal_and_release_storms_without_prune_are_allocation_free_and_wheel_stays_flat() {
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

    // Release and re-grant, round-robin over the leases: one orphan each.
    let mut at = base + 2 + EXTENSIONS;
    let mut churn = |table: &mut SlabTable<u64>, n: u64| {
        let i = n as usize % LEASES;
        table.release(key(i).0, key(i).1);
        at += 1;
        handles[i] = table.grant(key(i).0, key(i).1, Time(at));
        table.timer_entries()
    };
    // Warm-up: a few compactions, so the wheel slot has reached its
    // high-water capacity.
    for n in 0..4 * LEASES as u64 {
        churn(&mut table, n);
    }
    let before = allocations().expect("alloc-count feature is on");
    let mut most = 0;
    for n in 0..CHURNS {
        most = most.max(churn(&mut table, n));
    }
    let allocs = allocations().expect("alloc-count feature is on") - before;

    assert_eq!(allocs, 0, "release churn allocated");
    assert!(
        most <= 2 * LEASES + ORPHAN_SLACK,
        "{most} wheel entries for {LEASES} leases"
    );
    // More than one entry per lease at the peak: the orphans really were
    // kept until a compaction took them.
    assert!(most > LEASES + ORPHAN_SLACK);
    assert_eq!(table.len(), LEASES);
}
