//! Acceptance check for the SPSC ring ingress: zero heap allocations on
//! the stage → publish → drain round trip once the buffers are warm.
//!
//! The ring is the per-producer hot path into a shard worker; its whole
//! point is that a steady-state send costs two atomic stores and no
//! allocator traffic. This pins that: after warm-up, a full round —
//! staging a burst of protocol messages into a reused buffer, publishing
//! them with one `push_from`, ringing the doorbell, and draining them
//! with one `drain_into` — performs **zero** heap allocations.
//!
//! Only built with `--features alloc-count` (which swaps in the counting
//! global allocator); run it as
//!
//! ```text
//! cargo test -p lease-bench --features alloc-count --test zero_alloc_ring
//! ```
//!
//! The test lives alone in this file on purpose: integration tests in one
//! file share a process, and a concurrently running test allocating on
//! another thread would charge its allocations to our window. For the
//! same reason both ends of the ring run on this one thread — a real
//! shard worker would drain from its own core, but its allocations would
//! be indistinguishable from ours.

#![cfg(feature = "alloc-count")]

use lease_bench::allocations;
use lease_core::ring::{spsc, Consumer, Doorbell, Producer};
use lease_core::{ReqId, ToServer};

const BURST: usize = 256;
const CAPACITY: usize = 1024;

type Msg = ToServer<u64, u64>;

/// One steady-state round: stage a burst of writes (heap-free payloads —
/// `Write` carries no owned data for `D = u64`), publish the whole burst
/// through the ring, signal the doorbell, and drain it back. Returns the
/// heap allocations the round performed.
fn round(
    tx: &mut Producer<Msg>,
    rx: &mut Consumer<Msg>,
    bell: &Doorbell,
    stage: &mut Vec<Msg>,
    batch: &mut Vec<Msg>,
    epoch: u64,
) -> u64 {
    let before = allocations().expect("alloc-count feature is on");
    stage.clear();
    for i in 0..BURST as u64 {
        stage.push(ToServer::Write {
            req: ReqId(epoch * BURST as u64 + i),
            resource: i % 32,
            data: epoch,
        });
    }
    // The consumer's park path, in a worker's order: ticket first, then
    // the publish lands, then the final poll — so the wait below sees the
    // count moved and skips the sleep. (A real worker parks only when the
    // poll finds nothing.)
    let ticket = bell.ticket();
    let mut sent = 0usize;
    while !stage.is_empty() {
        let pushed = tx.push_from(stage);
        assert!(pushed > 0, "ring full with an empty consumer side");
        sent += pushed;
        bell.ring();
    }
    batch.clear();
    let mut got = 0usize;
    while got < sent {
        got += rx.drain_into(batch, BURST);
    }
    assert!(
        bell.wait(ticket, std::time::Duration::ZERO),
        "wait() must return without parking once the seq advanced"
    );
    assert_eq!(got, BURST);
    allocations().expect("alloc-count feature is on") - before
}

#[test]
fn steady_state_ring_publish_and_drain_is_allocation_free() {
    let (mut tx, mut rx) = spsc::<Msg>(CAPACITY);
    let bell = Doorbell::new();
    let mut stage: Vec<Msg> = Vec::new();
    let mut batch: Vec<Msg> = Vec::new();

    // Warm-up rounds grow the stage and drain buffers to their high-water
    // marks (the ring itself preallocates every slot at construction).
    let mut per_round = Vec::new();
    for epoch in 0..16u64 {
        per_round.push(round(
            &mut tx, &mut rx, &bell, &mut stage, &mut batch, epoch,
        ));
    }
    // ...after which the hot loop must not touch the allocator at all.
    let tail = &per_round[per_round.len() - 8..];
    assert!(
        tail.iter().all(|&a| a == 0),
        "steady-state ring rounds still allocate: {per_round:?}"
    );
    assert!(rx.is_empty() && tx.is_empty());
}
