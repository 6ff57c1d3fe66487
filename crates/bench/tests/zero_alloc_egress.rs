//! Acceptance check for the SPSC ring *egress*: zero heap allocations
//! on the outbox → publish → doorbell → client-drain round trip once
//! the lanes are warm, and no allocation of the producer's left in a
//! lane.
//!
//! The egress mirror of `zero_alloc_ring`: a shard worker's reply flush
//! — grouping an outbox into same-client runs, publishing each run with
//! one `push_from` through [`EgressWorker::deliver_batch`], ringing
//! each touched client's doorbell once — and the client side's
//! round-robin [`EgressRx::drain_into`] must together perform **zero**
//! heap allocations after warm-up. The payload is `ToClient::WriteDone`
//! with `D = u64`, which owns no heap data.
//!
//! The second test holds the rule the lanes are built on: *a thread
//! frees what it allocates; a lane carries plain data*. Its outbox is
//! one-grant fetch replies, each `ToClient::Grants` owning a one-element
//! `Vec` allocated by the producer. Once `deliver_batch` returns, the
//! heap's live bytes must be back where they were before the outbox was
//! built — every one of those `Vec`s freed by the producing thread, none
//! of them parked in a lane for the consumer to free — and the
//! lane-form drain ([`EgressRx::drain_replies_into`], what a socket
//! writer encodes from) must not allocate.
//!
//! Only built with `--features alloc-count` (which swaps in the
//! counting global allocator); run it as
//!
//! ```text
//! cargo test -p lease-bench --features alloc-count --test zero_alloc_egress
//! ```
//!
//! The test lives alone in this file on purpose: integration tests in
//! one file share a process, and a concurrently running test allocating
//! on another thread — or the harness reporting a finished one — would
//! charge its allocations to our window. Both ends run on this one
//! thread for the same reason, and the one-grant rounds follow the
//! `WriteDone` rounds in the same test.

#![cfg(feature = "alloc-count")]

use lease_bench::{allocations, live_bytes};
use lease_clock::Dur;
use lease_core::{ClientId, Grant, LeaseHandle, ReqId, ToClient, Version};
use lease_svc::{Egress, EgressRx, EgressWorker, Reply};

const CLIENTS: usize = 4;
const BURST: usize = 256;
const CAPACITY: usize = 1024;

type Msg = ToClient<u64, u64>;

/// One steady-state flush: stage a burst of replies spread over every
/// client in run-clustered order (exactly how a shard outbox looks),
/// deliver the whole flush, then drain each client's lanes. Returns
/// the heap allocations the round performed.
fn round(
    worker: &mut EgressWorker<u64, u64>,
    rxs: &mut [EgressRx<u64, u64>],
    outbox: &mut Vec<(ClientId, Msg)>,
    batch: &mut Vec<Msg>,
    epoch: u64,
) -> u64 {
    let before = allocations().expect("alloc-count feature is on");
    outbox.clear();
    for c in 0..CLIENTS {
        for i in 0..(BURST / CLIENTS) as u64 {
            outbox.push((
                ClientId(c as u32),
                ToClient::WriteDone {
                    req: ReqId(epoch * BURST as u64 + i),
                    resource: i % 32,
                    version: Version(epoch),
                    term: Dur::from_secs(1),
                },
            ));
        }
    }
    // The client's park path, in a client's order: ticket first, then the
    // flush lands, then the final poll — so the wait below sees the count
    // moved and skips the sleep. (A real client parks only on an empty
    // poll.)
    let tickets: [u64; CLIENTS] = std::array::from_fn(|c| rxs[c].bell().ticket());
    worker.deliver_batch(outbox);
    let mut got = 0usize;
    for (rx, ticket) in rxs.iter_mut().zip(tickets) {
        batch.clear();
        loop {
            let n = rx.drain_into(batch, BURST);
            got += n;
            if n == 0 {
                break;
            }
        }
        assert!(
            rx.bell().wait(ticket, std::time::Duration::ZERO),
            "wait() must return without parking once the seq advanced"
        );
    }
    assert_eq!(got, BURST);
    allocations().expect("alloc-count feature is on") - before
}

#[test]
fn steady_state_egress_flush_and_drain_is_allocation_free() {
    // The harness's main thread does its own bookkeeping (a few hundred
    // bytes) just after starting this test; the counters are
    // process-wide, so let it park before anything is counted.
    std::thread::sleep(std::time::Duration::from_millis(50));
    let egress: Egress<u64, u64> = Egress::new(CLIENTS, CAPACITY);
    let mut worker = egress.worker();
    let mut rxs: Vec<EgressRx<u64, u64>> = (0..CLIENTS).map(|c| egress.rx(c)).collect();
    let mut outbox: Vec<(ClientId, Msg)> = Vec::new();
    let mut batch: Vec<Msg> = Vec::new();

    // Warm-up rounds create and adopt the lanes and grow the scratch
    // buffers to their high-water marks...
    let mut per_round = Vec::new();
    for epoch in 0..16u64 {
        per_round.push(round(&mut worker, &mut rxs, &mut outbox, &mut batch, epoch));
    }
    // ...after which a full flush + drain must not touch the allocator.
    let tail = &per_round[per_round.len() - 8..];
    assert!(
        tail.iter().all(|&a| a == 0),
        "steady-state egress rounds still allocate: {per_round:?}"
    );

    // One-grant replies: the lane-form drain buffer warms up the same way...
    let mut lane: Vec<Reply<u64, u64>> = Vec::new();
    let per_round: Vec<(i64, u64)> = (0..16u64)
        .map(|epoch| grant_round(&mut worker, &mut rxs, &mut outbox, &mut lane, epoch))
        .collect();
    // ...after which a flush retains nothing and a drain allocates nothing.
    let tail = &per_round[per_round.len() - 8..];
    assert!(
        tail.iter().all(|&(left, _)| left == 0),
        "a flush left producer allocations in the lanes (bytes, allocs): {per_round:?}"
    );
    assert!(
        tail.iter().all(|&(_, allocs)| allocs == 0),
        "the lane-form drain allocates (bytes, allocs): {per_round:?}"
    );
}

/// One steady-state flush of one-grant fetch replies spread over every
/// client, then a lane-form drain of each client's lanes. Returns the
/// live heap bytes the flush left behind (what a lane holds of the
/// producer's) and the allocations of the drain.
fn grant_round(
    worker: &mut EgressWorker<u64, u64>,
    rxs: &mut [EgressRx<u64, u64>],
    outbox: &mut Vec<(ClientId, Msg)>,
    lane: &mut Vec<Reply<u64, u64>>,
    epoch: u64,
) -> (i64, u64) {
    outbox.clear();
    let before = live_bytes().expect("alloc-count feature is on");
    for c in 0..CLIENTS {
        for i in 0..(BURST / CLIENTS) as u64 {
            outbox.push((
                ClientId(c as u32),
                ToClient::Grants {
                    req: ReqId(epoch * BURST as u64 + i),
                    grants: vec![Grant {
                        resource: i % 32,
                        version: Version(epoch),
                        data: Some(i),
                        term: Dur::from_secs(1),
                        handle: LeaseHandle::from_raw(i as u32, 1),
                    }],
                },
            ));
        }
    }
    worker.deliver_batch(outbox);
    let left = live_bytes().expect("alloc-count feature is on") - before;

    let before = allocations().expect("alloc-count feature is on");
    let mut got = 0usize;
    for rx in rxs.iter_mut() {
        lane.clear();
        while rx.drain_replies_into(lane, BURST) > 0 {}
        got += lane.len();
    }
    assert_eq!(got, BURST);
    (
        left,
        allocations().expect("alloc-count feature is on") - before,
    )
}
