//! Acceptance check for the local hit: a read under a valid lease,
//! through an `RtClientHandle`, performs **zero** heap allocations.
//!
//! A hit takes the client's driver lock, compares the lease's expiry
//! with the host clock, stamps the recorder, clones the `Bytes` (a
//! reference count) and returns; the recorder's ring was allocated when
//! the system started. A channel message, a reply slot or a history
//! vector growing on that path would each show here as at least one
//! allocation per read.
//!
//! Only built with `--features alloc-count` (which swaps in the counting
//! global allocator); run it as
//!
//! ```text
//! cargo test -p lease-bench --features alloc-count --test zero_alloc_hit
//! ```
//!
//! The test lives alone in this file on purpose: the counter is
//! process-wide. The system's own threads (shard worker, client IO
//! thread) are alive but idle during a round — nothing is in flight and
//! the lease outlives the test — yet a round is retried a few times and
//! the smallest count taken, so that one stray allocation on another
//! thread cannot fail a path that makes none.

#![cfg(feature = "alloc-count")]

use lease_bench::allocations;
use lease_clock::Dur;
use lease_rt::RtSystem;

const HITS: usize = 10_000;
const ROUNDS: usize = 5;

#[test]
fn ten_thousand_hits_allocate_nothing() {
    let sys = RtSystem::builder()
        .term(Dur::from_secs(600))
        .file("/data/a", b"payload".as_ref())
        .start();
    let a = sys.lookup("/data/a").expect("file");
    let client = sys.client(0);
    let (_, _, from_cache) = client.read_detailed(a).expect("cold read");
    assert!(!from_cache);

    let fewest = (0..ROUNDS)
        .map(|_| {
            let before = allocations().expect("alloc-count feature is on");
            for _ in 0..HITS {
                let (data, _, from_cache) = client.read_detailed(a).expect("hit");
                assert!(from_cache);
                assert_eq!(&data[..], b"payload");
            }
            allocations().expect("alloc-count feature is on") - before
        })
        .min()
        .expect("at least one round");
    assert_eq!(fewest, 0, "{HITS} hits allocated {fewest} times");

    assert_eq!(client.stats().expect("stats").hits, (ROUNDS * HITS) as u64);
    sys.shutdown();
}
