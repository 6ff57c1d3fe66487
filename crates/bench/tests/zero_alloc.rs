//! Acceptance check for the slab lease table: zero heap allocations on
//! grant / extend / release / prune once the table is warm.
//!
//! Only built with `--features alloc-count` (which swaps in the counting
//! global allocator); run it as
//!
//! ```text
//! cargo test -p lease-bench --features alloc-count --test zero_alloc
//! ```
//!
//! The test lives alone in this file on purpose: integration tests in one
//! file share a process, and a concurrently running test allocating on
//! another thread would charge its allocations to our window.
#![cfg(feature = "alloc-count")]

use lease_bench::allocations;
use lease_clock::Time;
use lease_core::table::{LeaseHandle, SlabTable};
use lease_core::ClientId;

const RESOURCES: u64 = 64;
const CLIENTS: u32 = 8;
const STEP: u64 = 1_000_000; // one slab tick (1 ms) in ns

/// One steady-state round: every lease renewed to a later deadline, a
/// subset released and re-granted (free-list churn), then a prune that
/// advances past the previous round's deadlines, so every record's wheel
/// entry fires and is re-armed and the released tenancies' entries drain.
/// Returns the heap allocations the round performed.
fn round(table: &mut SlabTable<u64>, handles: &mut [LeaseHandle], epoch: u64) -> u64 {
    let before = allocations().expect("alloc-count feature is on");
    let expiry = Time((epoch + 2) * STEP);
    for r in 0..RESOURCES {
        for c in 0..CLIENTS {
            let i = (r * u64::from(CLIENTS) + u64::from(c)) as usize;
            handles[i] = table.extend(handles[i], r, ClientId(c), expiry);
        }
    }
    // Release one client per resource and grant it back: exercises
    // unlink, free-list push, free-list pop, and relink.
    for r in 0..RESOURCES {
        let c = ClientId((epoch % u64::from(CLIENTS)) as u32);
        table.release(r, c);
        let i = (r * u64::from(CLIENTS) + u64::from(c.0)) as usize;
        handles[i] = table.grant(r, c, expiry);
    }
    table.prune(Time((epoch + 1) * STEP + STEP / 2));
    allocations().expect("alloc-count feature is on") - before
}

#[test]
fn steady_state_grant_extend_release_prune_is_allocation_free() {
    let mut table: SlabTable<u64> = SlabTable::new();
    let mut handles = vec![LeaseHandle::NULL; (RESOURCES * u64::from(CLIENTS)) as usize];
    for r in 0..RESOURCES {
        for c in 0..CLIENTS {
            let i = (r * u64::from(CLIENTS) + u64::from(c)) as usize;
            handles[i] = table.grant(r, ClientId(c), Time(2 * STEP));
        }
    }

    // Warm-up rounds grow slab, wheel slots, and scratch buffers to their
    // steady-state high-water marks. One round advances one wheel tick, so
    // a full revolution of the 64-slot innermost ring is needed before
    // every slot Vec has seen its high-water occupancy.
    let mut per_round = Vec::new();
    for epoch in 1..=80u64 {
        per_round.push(round(&mut table, &mut handles, epoch));
    }
    // ...after which the hot loop must not touch the allocator at all.
    let tail = &per_round[per_round.len() - 8..];
    assert!(
        tail.iter().all(|&a| a == 0),
        "steady-state rounds still allocate: {per_round:?}"
    );
    assert_eq!(table.len(), (RESOURCES * u64::from(CLIENTS)) as usize);
}
